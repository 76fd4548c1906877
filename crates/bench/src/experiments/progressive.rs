//! Progressive-serving benchmark: staleness window, refinement latency
//! and jobs-re-run-vs-dirty-subtrees for the phased incremental driver.
//!
//! One sweep drives a [`PhasedSynopsisDriver`] over a long WD-like feed
//! with a range of per-tick append sizes. For each append size the sweep
//! records, averaged over the steady-state ticks:
//!
//! * how many base sub-trees each append dirtied,
//! * how many map tasks the foreground (conventional) and background
//!   (exact DGreedyAbs) refinements re-ran — against the full-rebuild
//!   task count of tick 1,
//! * the **staleness window**: simulated seconds between the coarse
//!   snapshot and the exact snapshot superseding it, and
//! * the **refinement latency** reported by the trace's per-label
//!   publish gaps.
//!
//! Every tick's exact answer is also checked bit-identical to a one-shot
//! [`dgreedy_abs`] build of the same window — the benchmark doubles as a
//! correctness sweep.

use std::path::Path;

use dwmaxerr_core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig};
use dwmaxerr_core::progressive::PhasedSynopsisDriver;
use dwmaxerr_datagen::wd_like;
use dwmaxerr_runtime::trace::{self, json, summary};
use dwmaxerr_runtime::{Cluster, ClusterConfig};

use crate::report::{bench_document, secs, Table};

/// Steady-state averages for one append size.
#[derive(Debug, Clone, Copy)]
pub struct ProgressiveSample {
    /// Values appended per tick.
    pub append: usize,
    /// Appended fraction of the window (`append / n`).
    pub fraction: f64,
    /// Mean base sub-trees dirtied per tick.
    pub dirty_bases: f64,
    /// Mean foreground (conventional) map tasks per tick.
    pub foreground_tasks: f64,
    /// Mean background (exact) map tasks per tick.
    pub background_tasks: f64,
    /// Mean GreedyAbs runs inside the background tasks per tick.
    pub greedy_runs: f64,
    /// Map tasks of the tick-1 full rebuild (foreground + background).
    pub full_rebuild_tasks: usize,
    /// Mean simulated seconds the coarse answer was the freshest.
    pub staleness_secs: f64,
    /// Mean refinement lag from the trace (coarse publish → exact
    /// publish on the serving label).
    pub refinement_secs: f64,
    /// Every tick's exact answer matched a one-shot build bit for bit.
    pub identical: bool,
}

/// The whole sweep plus the cluster it ran on.
#[derive(Debug)]
pub struct ProgressiveSweep {
    /// One row per append size.
    pub samples: Vec<ProgressiveSample>,
    /// Window length.
    pub n: usize,
    /// Leaves per base sub-tree.
    pub base_leaves: usize,
    /// Synopsis budget.
    pub budget: usize,
}

fn bench_cluster() -> Cluster {
    Cluster::new(ClusterConfig::default())
}

/// Runs the sweep. `smoke` shrinks the window so CI finishes in seconds;
/// `trace_dir`, when set, receives the heaviest run's execution trace as
/// `progressive.trace.jsonl` + `progressive.trace.json` (Chrome format)
/// for `trace_check`.
pub fn progressive_sweep(smoke: bool, trace_dir: Option<&Path>) -> ProgressiveSweep {
    let (n, base_leaves) = if smoke {
        (1 << 12, 1 << 8)
    } else {
        (1 << 14, 1 << 10)
    };
    let budget = n / 16;
    let cfg = DGreedyAbsConfig {
        base_leaves,
        bucket_width: 1e-6,
        reducers: 4,
        max_candidates: None,
    };
    let ticks = if smoke { 6 } else { 12 };
    let appends: Vec<usize> = vec![base_leaves / 4, base_leaves, 4 * base_leaves, n / 2];

    let feed = wd_like(n + ticks * n / 2, 2e-4, 17);
    let mut samples = Vec::new();
    let mut heaviest_events = Vec::new();

    for &append in &appends {
        let cluster = bench_cluster();
        let mut driver = PhasedSynopsisDriver::new(n, budget, &cfg).expect("driver setup");

        // Tick 1 fills the window: the full-rebuild yardstick.
        let full = driver.tick(&cluster, &feed[..n]).expect("fill tick");
        let full_rebuild_tasks = full.foreground_tasks + full.background_tasks;

        let mut dirty = 0.0;
        let mut fg = 0.0;
        let mut bg = 0.0;
        let mut greedy = 0.0;
        let mut stale = 0.0;
        let mut identical = true;
        let mut offset = n;
        for _ in 0..ticks {
            let chunk = &feed[offset..offset + append];
            offset += append;
            let r = driver.tick(&cluster, chunk).expect("steady tick");
            dirty += r.dirty_bases as f64;
            fg += r.foreground_tasks as f64;
            bg += r.background_tasks as f64;
            greedy += r.greedy_runs as f64;
            stale += r.staleness_secs;

            let reference = dgreedy_abs(&bench_cluster(), driver.window().data(), budget, &cfg)
                .expect("one-shot reference");
            let served = driver.latest().expect("published snapshot");
            identical &= served.value.synopsis == reference.synopsis
                && served.value.guaranteed_error.map(f64::to_bits)
                    == Some(reference.estimated_error.to_bits());
        }

        let events = cluster.trace().snapshot();
        trace::validate(&events).expect("benchmark trace must validate");
        let lags = summary::refinement_lags(&events);
        // Coarse→exact gaps are the odd-indexed transitions (v1→v2,
        // v3→v4, ...); even-indexed ones span the idle time between
        // ticks.
        let refine: Vec<f64> = lags
            .iter()
            .filter(|l| l.from_version % 2 == 1)
            .map(|l| l.secs)
            .collect();
        let refinement_secs = refine.iter().sum::<f64>() / refine.len().max(1) as f64;
        if append == *appends.last().expect("non-empty sweep") {
            heaviest_events = events;
        }

        let t = ticks as f64;
        samples.push(ProgressiveSample {
            append,
            fraction: append as f64 / n as f64,
            dirty_bases: dirty / t,
            foreground_tasks: fg / t,
            background_tasks: bg / t,
            greedy_runs: greedy / t,
            full_rebuild_tasks,
            staleness_secs: stale / t,
            refinement_secs,
            identical,
        });
    }

    if let Some(dir) = trace_dir {
        std::fs::create_dir_all(dir).expect("create trace dir");
        let jsonl = dir.join("progressive.trace.jsonl");
        std::fs::write(&jsonl, trace::to_jsonl(&heaviest_events)).expect("write JSONL trace");
        let chrome = dir.join("progressive.trace.json");
        std::fs::write(&chrome, trace::chrome_trace(&heaviest_events)).expect("write Chrome trace");
        println!("wrote {} and {}", jsonl.display(), chrome.display());
    }

    ProgressiveSweep {
        samples,
        n,
        base_leaves,
        budget,
    }
}

impl ProgressiveSweep {
    /// Human-readable sweep table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Progressive maintenance (n = {}, S = {}, B = {})",
                self.n, self.base_leaves, self.budget
            ),
            "incremental refinement re-runs work proportional to the dirty \
             sub-trees while the served synopsis stays exact",
            &[
                "append",
                "fraction",
                "dirty",
                "bg tasks",
                "full tasks",
                "staleness",
                "refine lag",
                "identical",
            ],
        );
        for s in &self.samples {
            t.row(vec![
                format!("{}", s.append),
                format!("{:.3}", s.fraction),
                format!("{:.1}", s.dirty_bases),
                format!("{:.1}", s.background_tasks),
                format!("{}", s.full_rebuild_tasks),
                secs(s.staleness_secs),
                secs(s.refinement_secs),
                format!("{}", s.identical),
            ]);
        }
        t.note(
            "bg tasks: mean map tasks the exact refinement re-ran per tick; \
             full tasks: the tick-1 full rebuild's task count",
        );
        t
    }

    /// The `BENCH_progressive.json` document.
    pub fn to_json(&self, smoke: bool) -> String {
        let header = [
            ("n", self.n.into()),
            ("base_leaves", self.base_leaves.into()),
            ("budget", self.budget.into()),
        ];
        let rows = self
            .samples
            .iter()
            .map(|x| {
                json::object([
                    ("append", x.append.into()),
                    ("fraction", x.fraction.into()),
                    ("dirty_bases", x.dirty_bases.into()),
                    ("foreground_tasks", x.foreground_tasks.into()),
                    ("background_tasks", x.background_tasks.into()),
                    ("greedy_runs", x.greedy_runs.into()),
                    ("full_rebuild_tasks", x.full_rebuild_tasks.into()),
                    ("staleness_secs", x.staleness_secs.into()),
                    ("refinement_secs", x.refinement_secs.into()),
                    ("identical", x.identical.into()),
                ])
            })
            .collect();
        bench_document(
            "progressive",
            smoke,
            &ClusterConfig::default(),
            header,
            rows,
        )
    }
}
