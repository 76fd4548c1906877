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
use dwmaxerr_runtime::Cluster;
use dwmaxerr_wavelet::metrics::max_abs;

/// Outcome of one algorithm run within an experiment.
#[derive(Debug, Clone, Copy)]
pub struct RunOutcome {
    /// Simulated cluster seconds (distributed) or wall seconds
    /// (centralized).
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

/// Runs centralized IndirectHaar (wall-clock); `None` on quantization
/// infeasibility.
pub(crate) fn run_indirect_haar_centralized(
    data: &[f64],
    b: usize,
    delta: f64,
) -> Option<RunOutcome> {
    let start = std::time::Instant::now();
    match dwmaxerr_algos::indirect_haar::indirect_haar_centralized(data, b, delta) {
        Ok(rep) => Some(RunOutcome {
            secs: start.elapsed().as_secs_f64(),
            max_abs: rep.error,
            shuffle_bytes: 0,
        }),
        Err(_) => None,
    }
}

/// Runs centralized GreedyAbs (wall-clock).
pub(crate) fn run_greedy_abs_centralized(data: &[f64], b: usize) -> RunOutcome {
    let start = std::time::Instant::now();
    let coeffs = dwmaxerr_wavelet::transform::forward(data).expect("pow2");
    let (syn, _) = dwmaxerr_algos::greedy_abs::greedy_abs_synopsis(&coeffs, b).expect("runs");
    RunOutcome {
        secs: start.elapsed().as_secs_f64(),
        max_abs: max_abs(data, &syn.reconstruct_all()),
        shuffle_bytes: 0,
    }
}
