//! Slot-limited wave scheduling of task durations.
//!
//! Hadoop assigns tasks to a fixed number of cluster-wide slots; when a job
//! has more tasks than slots the excess serializes into *waves*. The paper's
//! scalability results (Figures 5c/5d: "running-time is almost constant at
//! first, when all data can be processed fully in parallel, and is linearly
//! growing as the cluster is fully utilized") are direct consequences of
//! this scheduling structure, which this module reproduces with greedy
//! (FIFO, earliest-available-slot) list scheduling.

use crate::fault::{FailureKind, TaskPhase};
use crate::metrics::{AttemptKind, AttemptOutcome, TaskAttempt};

/// Simulated seconds to move `bytes` through a device with the given
/// throughput — the one formula behind every I/O charge in the cost model
/// (HDFS reads, shuffle fetches, and spill/merge disk traffic), kept in one
/// place so all charges stay dimensionally consistent.
pub fn io_secs(bytes: u64, bytes_per_sec: f64) -> f64 {
    debug_assert!(
        bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
        "throughput must be positive"
    );
    bytes as f64 / bytes_per_sec
}

/// Number of scheduling waves: `ceil(tasks / slots)`.
pub fn waves(tasks: usize, slots: usize) -> usize {
    assert!(slots > 0);
    tasks.div_ceil(slots)
}

/// One planned attempt of a task: how long it runs (excluding startup) and
/// whether it ends in failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptPlan {
    /// Seconds the attempt occupies its slot before its outcome is
    /// observed (for failed attempts this is the time-to-failure).
    pub duration: f64,
    /// `Some` when the attempt crashes instead of completing, carrying
    /// why (panic vs. injected fault) for the attempt record and trace.
    pub failure: Option<FailureKind>,
}

/// A task's full execution plan for the schedule simulator: zero or more
/// failed attempts followed by exactly one successful attempt. Tasks that
/// exhaust their attempt budget never reach the scheduler — the job has
/// already failed by then.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskPlan {
    /// Attempts in execution order; all but the last have `fails = true`.
    pub attempts: Vec<AttemptPlan>,
    /// Seconds a healthy re-execution would take — the duration of a
    /// speculative backup, which lands on a non-straggling node.
    pub healthy_duration: f64,
}

impl TaskPlan {
    /// A plan with a single successful attempt (the fault-free case).
    pub fn healthy(duration: f64) -> Self {
        TaskPlan {
            attempts: vec![AttemptPlan {
                duration,
                failure: None,
            }],
            healthy_duration: duration,
        }
    }
}

/// When to launch speculative backups of long-running attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculationPolicy {
    /// Speculate once an attempt has run `threshold ×` the median healthy
    /// task duration (Hadoop's "slowest relative to average" heuristic).
    pub threshold: f64,
    /// Never speculate before an attempt has run this many seconds:
    /// Hadoop's 60 s floor, scaled (the engine's default is 50 ms).
    pub min_secs: f64,
}

/// How the phase's slots are spread over physical nodes: node `n` owns the
/// contiguous slot block `[n * slots_per_node, (n + 1) * slots_per_node)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeTopology {
    /// Number of nodes.
    pub nodes: usize,
    /// Slots hosted per node (the last node may own fewer when the
    /// cluster-wide slot count is not an exact multiple).
    pub slots_per_node: usize,
}

impl NodeTopology {
    /// A degenerate single-node topology hosting all `slots` — the
    /// behaviour of the engine before nodes became fault domains.
    pub fn single(slots: usize) -> Self {
        NodeTopology {
            nodes: 1,
            slots_per_node: slots.max(1),
        }
    }

    /// The node hosting a slot.
    pub fn node_of(&self, slot: usize) -> usize {
        (slot / self.slots_per_node).min(self.nodes.saturating_sub(1))
    }
}

/// One node failing at a phase-relative simulated time.
///
/// An event at or before the phase start (`at <= 0`) means the node was
/// already down when the phase began: permanent events make its slots
/// unusable from the start, transient ones are no-ops for scheduling (the
/// restart wiped storage before anything ran here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEvent {
    /// Node index in the topology.
    pub node: usize,
    /// Seconds from the phase start.
    pub at: f64,
    /// Whether the node's slots are gone for the rest of the phase.
    pub permanent: bool,
}

/// Node-level fault context for a phase schedule: topology, failure
/// events, and the optional blacklist threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFaults {
    /// Slot-to-node mapping.
    pub topology: NodeTopology,
    /// Node failures within this phase, any order.
    pub events: Vec<NodeEvent>,
    /// Blacklist a node once this many *task* failures (panics and
    /// injected faults — not node deaths) land on it; `None` disables.
    pub blacklist_after: Option<usize>,
}

impl NodeFaults {
    /// No node faults: a single-node topology with no events.
    pub fn none(slots: usize) -> Self {
        NodeFaults {
            topology: NodeTopology::single(slots),
            events: Vec::new(),
            blacklist_after: None,
        }
    }

    /// Whether the context can alter scheduling relative to a fault-free
    /// single-node run.
    fn is_active(&self) -> bool {
        !self.events.is_empty() || self.blacklist_after.is_some()
    }
}

/// Result of simulating one phase's attempt schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSchedule {
    /// Phase makespan in simulated seconds.
    pub makespan: f64,
    /// Every attempt as placed on the slot timeline.
    pub attempts: Vec<TaskAttempt>,
    /// Nodes blacklisted during the phase, as `(node, sim_time)` in
    /// trigger order.
    pub blacklisted: Vec<(usize, f64)>,
}

impl PhaseSchedule {
    /// The attempt whose result `task` kept: its one successful attempt.
    pub(crate) fn winner(&self, task: usize) -> Option<&TaskAttempt> {
        self.attempts
            .iter()
            .find(|a| a.task == task && a.outcome == AttemptOutcome::Succeeded)
    }
}

/// Entry in the ready queue of the attempt simulator.
#[derive(Debug, Clone)]
struct Ready {
    /// Simulated time at which the attempt may launch.
    ready: f64,
    /// FIFO tiebreak (submission order).
    seq: usize,
    task: usize,
    /// 1-based attempt number.
    attempt: usize,
    kind: AttemptKind,
    /// For regular/retry attempts: index into the task's plan. For
    /// speculative attempts: index into `records` of the regular attempt
    /// being backed up.
    idx: usize,
}

/// Event-driven FIFO scheduling of task *attempts* onto `slots` slots:
/// each launch takes the earliest-free slot, the lowest index on ties, so
/// with `tasks <= slots` the makespan is `startup + max(duration)` and
/// beyond that waves form. It reproduces Hadoop's recovery timeline: a failed attempt occupies its
/// slot until the failure is observed, and only then (plus `backoff`) does
/// its retry join the ready queue — retries are serialized *after* the
/// failure, never hidden at submission time. With a [`SpeculationPolicy`],
/// a successful attempt projected to run past the speculation trigger gets
/// a backup clone launched at the trigger point; whichever attempt
/// finishes first wins and the loser is killed, its slot time counted as
/// wasted work.
///
/// Every attempt (including retries and backups) pays `startup` seconds of
/// launch overhead inside its slot. The returned records are in assignment
/// order; the makespan is the latest `sim_end` across all attempts.
///
/// Slots map to nodes through `faults.topology`; each attempt record
/// carries the node it ran on. A [`NodeEvent`] at time `t` cuts every
/// attempt spanning `t` on that node — the attempt fails with
/// [`FailureKind::NodeLost`] at `t` and its retry (which does *not*
/// consume the task's planned attempt) joins the ready queue after the
/// backoff, landing on a surviving node. Permanent events additionally
/// make the node's slots unusable for new placements; speculative backups
/// that would span their node's death are simply not launched. With
/// `blacklist_after = Some(k)`, a node accumulating `k` *task* failures
/// (panics and injected faults; node deaths don't count — a dead tracker
/// is removed, not blacklisted) stops receiving new placements, unless it
/// is the last usable node.
pub fn schedule_attempts_on(
    phase: TaskPhase,
    plans: &[TaskPlan],
    slots: usize,
    startup: f64,
    backoff: f64,
    speculation: Option<SpeculationPolicy>,
    faults: &NodeFaults,
) -> PhaseSchedule {
    assert!(slots > 0, "scheduler requires at least one slot");
    if plans.is_empty() {
        return PhaseSchedule {
            makespan: 0.0,
            attempts: Vec::new(),
            blacklisted: Vec::new(),
        };
    }

    // Median healthy duration: the speculation baseline.
    let median = {
        let mut ds: Vec<f64> = plans.iter().map(|p| p.healthy_duration.max(0.0)).collect();
        ds.sort_by(f64::total_cmp);
        ds[ds.len() / 2]
    };
    let trigger = speculation.map(|s| (s.threshold * median).max(s.min_secs));
    let topo = faults.topology;

    // Without node faults the slot vector is truncated to the plan count
    // (unused slots can never win placement, and keeping the historical
    // truncation preserves exact slot indices in traces). With node
    // faults, every slot stays addressable so retries can migrate off a
    // dead node.
    let active = faults.is_active();
    let slot_count = if active {
        slots
    } else {
        slots.min(plans.len())
    };
    let mut free_at = vec![0.0f64; slot_count];
    // When a node dies permanently, from when (for placement rejection).
    let mut perm_down: Vec<Option<f64>> = vec![None; topo.nodes];
    for e in &faults.events {
        if e.permanent && e.node < topo.nodes {
            let at = e.at.max(0.0);
            let entry = &mut perm_down[e.node];
            *entry = Some(entry.map_or(at, |t: f64| t.min(at)));
        }
    }
    let mut blacklisted_at: Vec<Option<f64>> = vec![None; topo.nodes];
    let mut node_failures: Vec<usize> = vec![0; topo.nodes];
    let mut blacklist_log: Vec<(usize, f64)> = Vec::new();

    let mut records: Vec<TaskAttempt> = Vec::new();
    // Slot and natural end of each task's successful regular attempt,
    // consulted when its speculative backup launches.
    let mut regular_slot: Vec<usize> = vec![usize::MAX; plans.len()];
    let mut pending: Vec<Ready> = Vec::new();
    let mut seq = 0usize;
    for task in 0..plans.len() {
        pending.push(Ready {
            ready: 0.0,
            seq,
            task,
            attempt: 1,
            kind: AttemptKind::Regular,
            idx: 0,
        });
        seq += 1;
    }

    // Picks the earliest-free usable slot for a launch at or after
    // `ready`; slots on dead or blacklisted nodes are retired (free time
    // set to infinity) as they surface.
    let pick_slot = |free_at: &mut [f64],
                     perm_down: &[Option<f64>],
                     blacklisted_at: &[Option<f64>],
                     ready: f64|
     -> (usize, f64) {
        loop {
            // The first of the earliest-free slots; a retired (infinitely
            // busy) slot is never picked while another is usable.
            let (slot, slot_free) =
                free_at
                    .iter()
                    .enumerate()
                    .fold((0, f64::INFINITY), |best, (slot, &at)| {
                        if at.total_cmp(&best.1).is_lt() {
                            (slot, at)
                        } else {
                            best
                        }
                    });
            assert!(
                slot_free.is_finite(),
                "no usable slot survives the node fault plan"
            );
            let start = slot_free.max(ready);
            let node = topo.node_of(slot);
            let unusable = |down: Option<f64>| down.is_some_and(|t| start >= t);
            if unusable(perm_down[node]) || unusable(blacklisted_at[node]) {
                free_at[slot] = f64::INFINITY;
                continue;
            }
            return (slot, start);
        }
    };
    // Earliest node event cutting an attempt that occupies `node` over
    // `(start, end)`.
    let cutting_event = |node: usize, start: f64, end: f64| -> Option<&NodeEvent> {
        faults
            .events
            .iter()
            .filter(|e| e.node == node && e.at > start && e.at < end)
            .min_by(|a, b| a.at.total_cmp(&b.at))
    };

    // Pop the earliest-ready attempt (FIFO among ties). Linear scan:
    // attempt counts here are hundreds, not millions.
    while let Some(next) = pending
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.ready.total_cmp(&b.ready).then(a.seq.cmp(&b.seq)))
        .map(|(i, _)| i)
    {
        let item = pending.swap_remove(next);

        if item.kind == AttemptKind::Speculative {
            // `idx` points at the regular attempt's record.
            let reg_end = records[item.idx].sim_end;
            let (slot, start) = pick_slot(&mut free_at, &perm_down, &blacklisted_at, item.ready);
            if start >= reg_end {
                // The straggler finished before a backup could launch.
                continue;
            }
            let node = topo.node_of(slot);
            let natural_end = start + startup + plans[item.task].healthy_duration.max(0.0);
            if cutting_event(node, start, natural_end.min(reg_end)).is_some() {
                // The backup's node dies while it would still be running;
                // launching it buys nothing, so it never starts.
                continue;
            }
            if natural_end < reg_end {
                // Backup wins: the regular attempt is killed at the
                // backup's finish time, freeing its slot early.
                records[item.idx].outcome = AttemptOutcome::Killed;
                records[item.idx].sim_end = natural_end;
                free_at[regular_slot[item.task]] = natural_end;
                free_at[slot] = natural_end;
                records.push(TaskAttempt {
                    phase,
                    task: item.task,
                    attempt: item.attempt,
                    kind: AttemptKind::Speculative,
                    outcome: AttemptOutcome::Succeeded,
                    slot,
                    node,
                    failure: None,
                    sim_start: start,
                    sim_end: natural_end,
                });
            } else {
                // Regular wins: the backup is killed when it finishes.
                free_at[slot] = reg_end;
                records.push(TaskAttempt {
                    phase,
                    task: item.task,
                    attempt: item.attempt,
                    kind: AttemptKind::Speculative,
                    outcome: AttemptOutcome::Killed,
                    slot,
                    node,
                    failure: None,
                    sim_start: start,
                    sim_end: reg_end,
                });
            }
            continue;
        }

        let plan = &plans[item.task];
        let ap = plan.attempts[item.idx];
        let (slot, start) = pick_slot(&mut free_at, &perm_down, &blacklisted_at, item.ready);
        let node = topo.node_of(slot);
        let end = start + startup + ap.duration.max(0.0);

        if let Some(cut) = cutting_event(node, start, end) {
            // The node dies under the attempt: it fails at the cut, and
            // the retry re-runs the *same* planned attempt elsewhere (a
            // node death does not consume the task's attempt budget).
            records.push(TaskAttempt {
                phase,
                task: item.task,
                attempt: item.attempt,
                kind: item.kind,
                outcome: AttemptOutcome::Failed,
                slot,
                node,
                failure: Some(FailureKind::NodeLost),
                sim_start: start,
                sim_end: cut.at,
            });
            free_at[slot] = if cut.permanent { f64::INFINITY } else { cut.at };
            pending.push(Ready {
                ready: cut.at + backoff,
                seq,
                task: item.task,
                attempt: item.attempt + 1,
                kind: AttemptKind::Retry,
                idx: item.idx,
            });
            seq += 1;
            continue;
        }
        free_at[slot] = end;

        if ap.failure.is_some() {
            records.push(TaskAttempt {
                phase,
                task: item.task,
                attempt: item.attempt,
                kind: item.kind,
                outcome: AttemptOutcome::Failed,
                slot,
                node,
                failure: ap.failure,
                sim_start: start,
                sim_end: end,
            });
            debug_assert!(item.idx + 1 < plan.attempts.len(), "plan ends in failure");
            node_failures[node] += 1;
            if let Some(k) = faults.blacklist_after {
                if blacklisted_at[node].is_none() && node_failures[node] >= k {
                    // Never blacklist the last usable node: some slot must
                    // keep accepting work or the job can't finish.
                    let usable_elsewhere = (0..topo.nodes).any(|n| {
                        n != node && perm_down[n].is_none() && blacklisted_at[n].is_none()
                    });
                    if usable_elsewhere {
                        blacklisted_at[node] = Some(end);
                        blacklist_log.push((node, end));
                    }
                }
            }
            pending.push(Ready {
                ready: end + backoff,
                seq,
                task: item.task,
                attempt: item.attempt + 1,
                kind: AttemptKind::Retry,
                idx: item.idx + 1,
            });
            seq += 1;
        } else {
            regular_slot[item.task] = slot;
            records.push(TaskAttempt {
                phase,
                task: item.task,
                attempt: item.attempt,
                kind: item.kind,
                outcome: AttemptOutcome::Succeeded,
                slot,
                node,
                failure: None,
                sim_start: start,
                sim_end: end,
            });
            if let Some(trigger) = trigger {
                let run_secs = startup + ap.duration.max(0.0);
                if run_secs > startup + trigger {
                    // Straggling: a backup becomes ready once the attempt
                    // has demonstrably outrun the trigger point.
                    pending.push(Ready {
                        ready: start + startup + trigger,
                        seq,
                        task: item.task,
                        attempt: item.attempt + 1,
                        kind: AttemptKind::Speculative,
                        idx: records.len() - 1,
                    });
                    seq += 1;
                }
            }
        }
    }

    let makespan = records.iter().map(|r| r.sim_end).fold(0.0, f64::max);
    PhaseSchedule {
        makespan,
        attempts: records,
        blacklisted: blacklist_log,
    }
}

/// Wave boundaries of a phase schedule: `(start_time, tasks_started)` per
/// wave, in wave order.
///
/// A *wave* is a batch of first (regular) attempts admitted together:
/// launches are ordered by simulated start time and chunked into groups of
/// `slots`. On a healthy schedule this reproduces [`waves`] exactly
/// (`ceil(tasks / slots)` boundaries); under retries and speculation the
/// extra attempts do not open new waves — they fill holes in existing ones —
/// so the boundary count stays the submission-wave count.
pub fn wave_boundaries(attempts: &[TaskAttempt], slots: usize) -> Vec<(f64, usize)> {
    assert!(slots > 0);
    let mut starts: Vec<f64> = attempts
        .iter()
        .filter(|a| a.kind == AttemptKind::Regular)
        .map(|a| a.sim_start)
        .collect();
    starts.sort_by(f64::total_cmp);
    starts
        .chunks(slots)
        .map(|wave| (wave[0], wave.len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_secs_is_bytes_over_rate() {
        assert!((io_secs(1500, 1000.0) - 1.5).abs() < 1e-12);
        assert_eq!(io_secs(0, 150.0 * 1024.0 * 1024.0), 0.0);
    }

    /// Healthy plans of `durations` on `slots` slots: the makespan, with
    /// every task run once and succeeding.
    fn healthy_makespan(durations: &[f64], slots: usize, startup: f64) -> f64 {
        let plans: Vec<TaskPlan> = durations.iter().map(|&d| TaskPlan::healthy(d)).collect();
        let faults = NodeFaults::none(slots);
        let sched =
            schedule_attempts_on(TaskPhase::Map, &plans, slots, startup, 0.0, None, &faults);
        assert_eq!(sched.attempts.len(), durations.len());
        assert!(sched
            .attempts
            .iter()
            .all(|a| a.outcome == AttemptOutcome::Succeeded && a.kind == AttemptKind::Regular));
        sched.makespan
    }

    #[test]
    fn wave_arithmetic_of_healthy_plans() {
        let ones = [1.0; 16];
        // (case, durations, slots, startup, makespan)
        let table: [(&str, &[f64], usize, f64, f64); 10] = [
            (
                "one wave is the longest task",
                &[1.0, 2.0, 3.0],
                4,
                0.0,
                3.0,
            ),
            ("startup is added per task", &[1.0, 1.0], 2, 0.5, 1.5),
            ("two waves serialise", &ones[..4], 2, 0.0, 2.0),
            ("8 slots", &ones, 8, 0.0, 2.0),
            ("halving slots doubles the makespan", &ones, 4, 0.0, 4.0),
            ("one slot sums everything", &[0.5, 1.5, 2.0], 1, 0.1, 4.3),
            // [3] -> slot 0, then three 1s queue on slot 1 (free at 1, 2).
            (
                "uneven tasks pack greedily",
                &[3.0, 1.0, 1.0, 1.0],
                2,
                0.0,
                3.0,
            ),
            ("no tasks", &[], 4, 1.0, 0.0),
            ("negative durations clamp", &[-1.0, 2.0], 1, 0.0, 2.0),
            ("more slots than tasks", &[0.5, 3.0, 1.0], 8, 0.1, 3.1),
        ];
        for (case, durations, slots, startup, want) in table {
            let got = healthy_makespan(durations, slots, startup);
            assert!((got - want).abs() < 1e-12, "{case}: {got} != {want}");
        }
    }

    #[test]
    fn wave_count() {
        assert_eq!(waves(0, 4), 0);
        assert_eq!(waves(4, 4), 1);
        assert_eq!(waves(5, 4), 2);
        assert_eq!(waves(9, 4), 3);
    }

    fn failing(times: &[f64], final_secs: f64) -> TaskPlan {
        let mut attempts: Vec<AttemptPlan> = times
            .iter()
            .map(|&duration| AttemptPlan {
                duration,
                failure: Some(FailureKind::Injected),
            })
            .collect();
        attempts.push(AttemptPlan {
            duration: final_secs,
            failure: None,
        });
        TaskPlan {
            attempts,
            healthy_duration: final_secs,
        }
    }

    #[test]
    fn retry_serializes_after_observed_failure() {
        // One task, one slot: attempt 1 fails after 1 s, retry (0.25 s
        // backoff) succeeds in 2 s. Startup 0.5 s per attempt.
        let plans = vec![failing(&[1.0], 2.0)];
        let sched = schedule_attempts_on(
            TaskPhase::Map,
            &plans,
            1,
            0.5,
            0.25,
            None,
            &NodeFaults::none(1),
        );
        assert_eq!(sched.attempts.len(), 2);
        let fail = &sched.attempts[0];
        assert_eq!(fail.outcome, AttemptOutcome::Failed);
        assert_eq!(fail.kind, AttemptKind::Regular);
        assert!((fail.sim_end - 1.5).abs() < 1e-12);
        let retry = &sched.attempts[1];
        assert_eq!(retry.kind, AttemptKind::Retry);
        assert_eq!(retry.outcome, AttemptOutcome::Succeeded);
        assert_eq!(retry.attempt, 2);
        // Ready at 1.75, runs 0.5 + 2.0.
        assert!((retry.sim_start - 1.75).abs() < 1e-12);
        assert!((sched.makespan - 4.25).abs() < 1e-12);
    }

    #[test]
    fn failures_strictly_grow_makespan() {
        let healthy: Vec<TaskPlan> = (0..6).map(|_| TaskPlan::healthy(1.0)).collect();
        let mut faulty = healthy.clone();
        faulty[2] = failing(&[0.5], 1.0);
        let base = schedule_attempts_on(
            TaskPhase::Map,
            &healthy,
            2,
            0.1,
            0.0,
            None,
            &NodeFaults::none(2),
        );
        let hurt = schedule_attempts_on(
            TaskPhase::Map,
            &faulty,
            2,
            0.1,
            0.0,
            None,
            &NodeFaults::none(2),
        );
        assert!(hurt.makespan > base.makespan);
    }

    #[test]
    fn speculative_backup_wins_against_straggler() {
        // Four healthy 1 s tasks plus one straggler running 10 s whose
        // healthy re-execution takes 1 s. Median 1 s, trigger 1.5 s.
        let mut plans: Vec<TaskPlan> = (0..4).map(|_| TaskPlan::healthy(1.0)).collect();
        plans.push(TaskPlan {
            attempts: vec![AttemptPlan {
                duration: 10.0,
                failure: None,
            }],
            healthy_duration: 1.0,
        });
        let policy = SpeculationPolicy {
            threshold: 1.5,
            min_secs: 0.0,
        };
        let sched = schedule_attempts_on(
            TaskPhase::Map,
            &plans,
            5,
            0.0,
            0.0,
            Some(policy),
            &NodeFaults::none(5),
        );
        // Backup ready at 1.5, finishes at 2.5 < 10: it wins, the regular
        // attempt is killed at 2.5.
        assert!((sched.makespan - 2.5).abs() < 1e-12);
        let spec: Vec<_> = sched
            .attempts
            .iter()
            .filter(|a| a.kind == AttemptKind::Speculative)
            .collect();
        assert_eq!(spec.len(), 1);
        assert_eq!(spec[0].outcome, AttemptOutcome::Succeeded);
        let killed: Vec<_> = sched
            .attempts
            .iter()
            .filter(|a| a.outcome == AttemptOutcome::Killed)
            .collect();
        assert_eq!(killed.len(), 1);
        assert_eq!(killed[0].task, 4);
        assert_eq!(killed[0].kind, AttemptKind::Regular);
    }

    #[test]
    fn regular_attempt_outruns_slow_backup() {
        // The straggler is only mildly slow: the backup launches but loses.
        let mut plans: Vec<TaskPlan> = (0..4).map(|_| TaskPlan::healthy(1.0)).collect();
        plans.push(TaskPlan {
            attempts: vec![AttemptPlan {
                duration: 2.0,
                failure: None,
            }],
            healthy_duration: 1.9,
        });
        let policy = SpeculationPolicy {
            threshold: 1.5,
            min_secs: 0.0,
        };
        let sched = schedule_attempts_on(
            TaskPhase::Map,
            &plans,
            5,
            0.0,
            0.0,
            Some(policy),
            &NodeFaults::none(5),
        );
        assert!((sched.makespan - 2.0).abs() < 1e-12);
        let spec: Vec<_> = sched
            .attempts
            .iter()
            .filter(|a| a.kind == AttemptKind::Speculative)
            .collect();
        assert_eq!(spec.len(), 1);
        assert_eq!(spec[0].outcome, AttemptOutcome::Killed);
        // The killed backup occupied its slot from 1.5 to 2.0.
        assert!((spec[0].slot_secs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn no_speculation_without_policy_or_below_min_secs() {
        let mut plans: Vec<TaskPlan> = (0..4).map(|_| TaskPlan::healthy(0.001)).collect();
        plans.push(TaskPlan {
            attempts: vec![AttemptPlan {
                duration: 0.01,
                failure: None,
            }],
            healthy_duration: 0.001,
        });
        let none = schedule_attempts_on(
            TaskPhase::Map,
            &plans,
            5,
            0.0,
            0.0,
            None,
            &NodeFaults::none(5),
        );
        assert!(none
            .attempts
            .iter()
            .all(|a| a.kind != AttemptKind::Speculative));
        // min_secs 50 ms dwarfs these microscopic tasks: no backups either.
        let policy = SpeculationPolicy {
            threshold: 1.5,
            min_secs: 0.05,
        };
        let floored = schedule_attempts_on(
            TaskPhase::Map,
            &plans,
            5,
            0.0,
            0.0,
            Some(policy),
            &NodeFaults::none(5),
        );
        assert!(floored
            .attempts
            .iter()
            .all(|a| a.kind != AttemptKind::Speculative));
    }

    #[test]
    fn empty_plan_list() {
        let sched = schedule_attempts_on(
            TaskPhase::Reduce,
            &[],
            4,
            0.1,
            0.0,
            None,
            &NodeFaults::none(4),
        );
        assert_eq!(sched.makespan, 0.0);
        assert!(sched.attempts.is_empty());
    }

    #[test]
    fn node_of_maps_contiguous_blocks() {
        let topo = NodeTopology {
            nodes: 8,
            slots_per_node: 5,
        };
        assert_eq!(topo.node_of(0), 0);
        assert_eq!(topo.node_of(4), 0);
        assert_eq!(topo.node_of(5), 1);
        assert_eq!(topo.node_of(39), 7);
        // Degenerate single-node topology hosts everything on node 0.
        let single = NodeTopology::single(4);
        assert_eq!(single.node_of(3), 0);
    }

    #[test]
    fn node_free_schedule_tags_node_zero() {
        let plans: Vec<TaskPlan> = [1.0, 2.0, 0.5]
            .iter()
            .map(|&d| TaskPlan::healthy(d))
            .collect();
        let a = schedule_attempts_on(
            TaskPhase::Map,
            &plans,
            2,
            0.1,
            0.0,
            None,
            &NodeFaults::none(2),
        );
        assert!(a.attempts.iter().all(|r| r.node == 0));
        assert!(a.blacklisted.is_empty());
    }

    #[test]
    fn node_death_cuts_running_attempt_and_retries_on_survivor() {
        // 2 nodes × 1 slot, two 1 s tasks, node hosting slot 1 dies
        // permanently at 0.5 s. The attempt there fails with NodeLost at
        // the cut, and its retry (same planned attempt) lands on the
        // surviving node after that node's own task finishes.
        let plans = vec![TaskPlan::healthy(1.0), TaskPlan::healthy(1.0)];
        let faults = NodeFaults {
            topology: NodeTopology {
                nodes: 2,
                slots_per_node: 1,
            },
            events: vec![NodeEvent {
                node: 1,
                at: 0.5,
                permanent: true,
            }],
            blacklist_after: None,
        };
        let sched = schedule_attempts_on(TaskPhase::Map, &plans, 2, 0.0, 0.0, None, &faults);
        let cut: Vec<_> = sched
            .attempts
            .iter()
            .filter(|a| a.failure == Some(FailureKind::NodeLost))
            .collect();
        assert_eq!(cut.len(), 1);
        assert_eq!(cut[0].node, 1);
        assert_eq!(cut[0].outcome, AttemptOutcome::Failed);
        assert!((cut[0].sim_end - 0.5).abs() < 1e-12);
        let retry: Vec<_> = sched
            .attempts
            .iter()
            .filter(|a| a.kind == AttemptKind::Retry)
            .collect();
        assert_eq!(retry.len(), 1);
        assert_eq!(retry[0].node, 0, "retry must land on the survivor");
        assert_eq!(retry[0].outcome, AttemptOutcome::Succeeded);
        // Survivor runs its own task (0..1), then the retry (1..2).
        assert!((sched.makespan - 2.0).abs() < 1e-12);
        // Exactly one success per task.
        for task in 0..2 {
            assert_eq!(
                sched
                    .attempts
                    .iter()
                    .filter(|a| a.task == task && a.outcome == AttemptOutcome::Succeeded)
                    .count(),
                1
            );
        }
    }

    #[test]
    fn transient_restart_keeps_node_usable() {
        let plans = vec![TaskPlan::healthy(1.0), TaskPlan::healthy(1.0)];
        let faults = NodeFaults {
            topology: NodeTopology {
                nodes: 2,
                slots_per_node: 1,
            },
            events: vec![NodeEvent {
                node: 1,
                at: 0.5,
                permanent: false,
            }],
            blacklist_after: None,
        };
        let sched = schedule_attempts_on(TaskPhase::Map, &plans, 2, 0.0, 0.0, None, &faults);
        // The cut attempt's retry may return to node 1 — it restarted.
        let retry = sched
            .attempts
            .iter()
            .find(|a| a.kind == AttemptKind::Retry)
            .expect("cut attempt retried");
        assert_eq!(retry.node, 1);
        assert!((retry.sim_start - 0.5).abs() < 1e-12);
        assert!((sched.makespan - 1.5).abs() < 1e-12);
    }

    #[test]
    fn node_dead_before_phase_start_receives_no_placements() {
        let plans: Vec<TaskPlan> = (0..4).map(|_| TaskPlan::healthy(1.0)).collect();
        let faults = NodeFaults {
            topology: NodeTopology {
                nodes: 2,
                slots_per_node: 2,
            },
            events: vec![NodeEvent {
                node: 0,
                at: -3.0,
                permanent: true,
            }],
            blacklist_after: None,
        };
        let sched = schedule_attempts_on(TaskPhase::Map, &plans, 4, 0.0, 0.0, None, &faults);
        assert!(sched.attempts.iter().all(|a| a.node == 1));
        // All four tasks serialize onto node 1's two slots: two waves.
        assert!((sched.makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn blacklisted_node_stops_receiving_placements() {
        // 2 nodes × 2 slots; six tasks whose first attempts all fail.
        // With blacklist_after = 2, whichever node eats two failures first
        // is blacklisted and every later launch starts elsewhere.
        let plans: Vec<TaskPlan> = (0..6).map(|_| failing(&[0.5], 1.0)).collect();
        let faults = NodeFaults {
            topology: NodeTopology {
                nodes: 2,
                slots_per_node: 2,
            },
            events: Vec::new(),
            blacklist_after: Some(2),
        };
        let sched = schedule_attempts_on(TaskPhase::Map, &plans, 4, 0.0, 0.0, None, &faults);
        assert_eq!(sched.blacklisted.len(), 1, "one node crosses the bar");
        let (node, at) = sched.blacklisted[0];
        assert!(sched
            .attempts
            .iter()
            .all(|a| a.node != node || a.sim_start < at));
        // Every task still completes exactly once.
        for task in 0..6 {
            assert_eq!(
                sched
                    .attempts
                    .iter()
                    .filter(|a| a.task == task && a.outcome == AttemptOutcome::Succeeded)
                    .count(),
                1,
                "task {task}"
            );
        }
    }

    #[test]
    fn last_usable_node_is_never_blacklisted() {
        // Single node: failures pile up but the node must keep working.
        let plans: Vec<TaskPlan> = (0..4).map(|_| failing(&[0.5], 1.0)).collect();
        let faults = NodeFaults {
            topology: NodeTopology::single(2),
            events: Vec::new(),
            blacklist_after: Some(1),
        };
        let sched = schedule_attempts_on(TaskPhase::Map, &plans, 2, 0.0, 0.0, None, &faults);
        assert!(sched.blacklisted.is_empty());
        assert_eq!(
            sched
                .attempts
                .iter()
                .filter(|a| a.outcome == AttemptOutcome::Succeeded)
                .count(),
            4
        );
    }

    #[test]
    fn speculative_backup_skipped_when_its_node_would_die() {
        // One straggler; the only spare slot is on a node that dies while
        // the backup would still run, so no backup launches and the
        // straggler finishes naturally.
        let mut plans: Vec<TaskPlan> = (0..3).map(|_| TaskPlan::healthy(1.0)).collect();
        plans.push(TaskPlan {
            attempts: vec![AttemptPlan {
                duration: 10.0,
                failure: None,
            }],
            healthy_duration: 1.0,
        });
        let faults = NodeFaults {
            topology: NodeTopology {
                nodes: 2,
                slots_per_node: 4,
            },
            // FIFO placement puts the four busy tasks on node 0 (slots
            // 0..4), so the backup's slot would be on node 1. Node 1 dies
            // at 2 s — inside the backup's (1.5, 2.5) window — so no
            // backup launches and the straggler finishes naturally.
            events: vec![NodeEvent {
                node: 1,
                at: 2.0,
                permanent: true,
            }],
            blacklist_after: None,
        };
        let policy = SpeculationPolicy {
            threshold: 1.5,
            min_secs: 0.0,
        };
        let sched =
            schedule_attempts_on(TaskPhase::Map, &plans, 8, 0.0, 0.0, Some(policy), &faults);
        assert!(sched
            .attempts
            .iter()
            .all(|a| a.kind != AttemptKind::Speculative));
        assert!((sched.makespan - 10.0).abs() < 1e-12);
    }
}
