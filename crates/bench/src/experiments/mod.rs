//! One module per evaluation section; one public function per table or
//! figure of the paper.

mod comparison;
mod conventional;
mod datasets;
mod faults;
mod scalability;

pub use comparison::{fig8, fig9};
pub use conventional::{fig10, fig11};
pub use datasets::{fig6, fig7, table3};
pub use faults::{
    executor_threads_sweep, fault_sweep, fault_sweep_traced, node_fault_sweep, node_fault_tables,
    ExecutorThreadsSweep, NodeFaultSample, NodeFaultSweep, DEFAULT_FAULT_SEED,
};
pub use scalability::{fig5a, fig5b, fig5c, fig5d};

use dwmaxerr_core::dgreedy_abs::{dgreedy_abs, DGreedyAbsConfig};
use dwmaxerr_core::dindirect_haar::{dindirect_haar, DIndirectHaarConfig};
use dwmaxerr_core::dmin_haar_space::DmhsConfig;
use dwmaxerr_core::CoreError;
use dwmaxerr_runtime::scheduler::io_secs;
use dwmaxerr_runtime::{Cluster, ClusterConfig, Kernel, TaskCost};
use dwmaxerr_wavelet::metrics::max_abs;

/// Outcome of one algorithm run within an experiment.
#[derive(Debug, Clone, Copy)]
pub struct RunOutcome {
    /// Simulated cluster seconds (a centralized run is priced as one task
    /// on one slot).
    pub secs: f64,
    /// Achieved max-abs error.
    pub max_abs: f64,
    /// Shuffle bytes (0 for centralized runs).
    pub shuffle_bytes: u64,
}

/// Runs DGreedyAbs, returning simulated time and exact error.
pub(crate) fn run_dgreedy_abs(
    cluster: &Cluster,
    data: &[f64],
    b: usize,
    base_leaves: usize,
    bucket_width: f64,
) -> RunOutcome {
    let cfg = DGreedyAbsConfig {
        base_leaves,
        bucket_width,
        reducers: 4,
        max_candidates: None,
    };
    let res = dgreedy_abs(cluster, data, b, &cfg).expect("DGreedyAbs runs");
    RunOutcome {
        secs: res.metrics.total_simulated().secs(),
        max_abs: max_abs(data, &res.synopsis.reconstruct_all()),
        shuffle_bytes: res.metrics.total_shuffle_bytes(),
    }
}

/// Runs DIndirectHaar; `None` when δ is too coarse to quantize the space
/// (the paper's "could not run" cases).
pub(crate) fn run_dindirect_haar(
    cluster: &Cluster,
    data: &[f64],
    b: usize,
    base_leaves: usize,
    delta: f64,
) -> Option<RunOutcome> {
    let cfg = DIndirectHaarConfig {
        delta,
        probe: DmhsConfig {
            base_leaves,
            fan_in: 16,
        },
    };
    match dindirect_haar(cluster, data, b, &cfg) {
        Ok(res) => Some(RunOutcome {
            secs: res.metrics.total_simulated().secs(),
            max_abs: res.error,
            shuffle_bytes: res.metrics.total_shuffle_bytes(),
        }),
        Err(CoreError::Mhs(_)) => None,
        Err(e) => panic!("DIndirectHaar failed: {e}"),
    }
}

/// Figure note for every column that prices centralized work with the rates
/// fitted on distributed tasks (EXPERIMENTS.md, "One input to the simulated
/// clock", where the factors were measured).
pub(crate) const CENTRALIZED_NOTE: &str =
    "centralized work (GreedyAbs, IndirectHaar, Send-V's reducer step) is one task on one \
     slot, priced by rates fitted on distributed tasks: an extrapolation that understates \
     it. On a 2-vCPU x86-64 host it is priced at 0.2-0.65x its host seconds for GreedyAbs \
     (falling from 2^15 to 2^19 values: the per-discard cost grows once the tree outgrows \
     the caches), 0.4-0.7x for IndirectHaar and 0.3-0.45x for Send-V's step.";

/// Simulated seconds of a centralized run priced as one task on one slot
/// of the paper cluster: its launch, its HDFS read of the `n` values, and
/// `cost`'s price — the units the distributed runs are priced from.
fn one_task_secs(n: usize, cost: &TaskCost) -> f64 {
    let cfg = ClusterConfig::default();
    cfg.task_startup.as_secs_f64()
        + io_secs(8 * n as u64, cfg.hdfs_bytes_per_sec)
        + cost.secs(cfg.disk_bytes_per_sec)
}

/// Runs centralized IndirectHaar, priced as one task; `None` on
/// quantization infeasibility.
pub(crate) fn run_indirect_haar_centralized(
    data: &[f64],
    b: usize,
    delta: f64,
) -> Option<RunOutcome> {
    let n = data.len();
    let report = dwmaxerr_algos::indirect_haar::indirect_haar_centralized(data, b, delta).ok()?;
    // The transform and the upper bound's reconstruction, then per probe
    // its DP cells and a reconstruction.
    let mut cost = TaskCost::default();
    cost.charge(Kernel::Values, ((2 + report.probes) * n) as u64);
    cost.charge(Kernel::DpCells, report.cells);
    Some(RunOutcome {
        secs: one_task_secs(n, &cost),
        max_abs: report.error,
        shuffle_bytes: 0,
    })
}

/// Runs centralized GreedyAbs, priced as one task: the transform, then
/// `N` discards (the greedy runs to empty before it picks the best of the
/// last `B + 1` states).
pub(crate) fn run_greedy_abs_centralized(data: &[f64], b: usize) -> RunOutcome {
    let n = data.len();
    let coeffs = dwmaxerr_wavelet::transform::forward(data).expect("pow2");
    let (syn, _) = dwmaxerr_algos::greedy_abs::greedy_abs_synopsis(&coeffs, b).expect("runs");
    let mut cost = TaskCost::default();
    cost.charge(Kernel::Values, n as u64);
    cost.charge(Kernel::GreedyDiscards, n as u64);
    RunOutcome {
        secs: one_task_secs(n, &cost),
        max_abs: max_abs(data, &syn.reconstruct_all()),
        shuffle_bytes: 0,
    }
}
